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
import re
import sys
from collections import namedtuple
from itertools import chain

from . import evaluate as ev
from . import extract as ex
from . import vocab
from ._fileio import binary_writers, text_reader, write_text
from .embeddings import load_embeddings, normalize
from .errors import SpellvarError

log = logging.getLogger(__name__)


def _parse_cutoffs(text: str) -> tuple[int, ...]:
    try:
        cutoffs = tuple(int(c) for c in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(f"cutoffs must be integers: {text!r}") from None
    return ev.check_cutoffs(cutoffs)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def load_config(path: str) -> dict[str, str]:
    """A flat ``key = value`` file, no key twice; '#' opening a line or word starts a comment."""
    values: dict[str, str] = {}
    with text_reader(path) as stream:
        for lineno, line in enumerate(stream, start=1):
            line = re.split(r"(?<!\S)#", line, maxsplit=1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key = key.strip().replace("-", "_")
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            values[key] = value.strip()
    return values


def cmd_extract(opts: argparse.Namespace) -> int:
    freq = vocab.load_frequencies(opts.freq)
    kept, stats = ex.mine_pairs(ex.read_definitions(opts.defs), freq, opts.min_freq)

    outputs = (opts.pairs, opts.pairs + ".stats", opts.pairs + ".stats.json")
    with binary_writers(*outputs) as (pairs_out, stats_out, json_out):
        ex.write_pairs(kept, pairs_out)
        write_text(stats_out, stats.as_text())
        write_text(json_out, stats.as_json())
    print(stats.as_text(), end="")
    print(f"pairs kept: {len(kept)} -> {opts.pairs}")
    return 0


def cmd_build_vocab(opts: argparse.Namespace) -> int:
    with text_reader(opts.corpus) as stream:
        tokens = chain.from_iterable(map(vocab.tokenize, stream))
        lexicon = vocab.build_lexicon(tokens, opts.min_count)
    vocab.write_lexicon(lexicon, opts.lexicon)
    print(f"lexicon tokens: {len(lexicon)} -> {opts.lexicon}")
    return 0


def cmd_count_freq(opts: argparse.Namespace) -> int:
    with text_reader(opts.corpus) as stream:
        tokens = chain.from_iterable(map(vocab.tokenize, stream))
        table = vocab.count_frequencies(tokens)
    vocab.write_frequencies(table, opts.freq)
    print(f"distinct tokens: {len(table)} (total {table.total_tokens}) -> {opts.freq}")
    return 0


def cmd_evaluate(opts: argparse.Namespace) -> int:
    config = ev.EvalConfig(k=max(opts.cutoffs), cutoffs=opts.cutoffs,
                           exclude_self=not opts.no_exclude_self)

    pairs = ex.read_pairs(opts.pairs)
    lexicon = vocab.load_lexicon(opts.lexicon)
    table = normalize(load_embeddings(opts.embeddings, format=opts.format))

    reviewed = [pair for pair in pairs if not pair.validation.startswith("rejected")]
    if len(reviewed) < len(pairs):
        log.info("validation rejected %d of %d pairs", len(pairs) - len(reviewed), len(pairs))
    retained = [pair for pair in reviewed if pair.formal in lexicon]
    removed = len(reviewed) - len(retained)
    if removed:
        log.info("lexicon filter removed %d of %d pairs", removed, len(reviewed))
    report = ev.evaluate_pairs(table, retained, lexicon, config)
    report.metadata.update(lexicon=opts.lexicon, embeddings=opts.embeddings, pairs_file=opts.pairs,
                           embedding_format=opts.format, pairs_removed_by_lexicon=str(removed))

    ev.write_report(report, opts.report, opts.report + ".tsv")
    counts, hits_at = ev.summarize_rows(report.per_pair, config.cutoffs)
    scored = counts[ev.PairStatus.SCORED]
    print(
        f"pairs: {len(pairs)}  evaluated: {len(retained)}  scored: {scored}  "
        f"missing_informal: {counts[ev.PairStatus.INFORMAL_MISSING]}  "
        f"missing_formal: {counts[ev.PairStatus.FORMAL_MISSING]}"
    )
    for line in ev.accuracy_summary(hits_at, scored):
        print(line)
    return 0


def cmd_report(opts: argparse.Namespace) -> int:
    rows = ev.load_report_rows(opts.report)
    counts, hits_at = ev.summarize_rows(rows, opts.cutoffs)
    print(f"pairs: {len(rows)}  scored: {counts[ev.PairStatus.SCORED]}")
    for line in ev.accuracy_summary(hits_at, counts[ev.PairStatus.SCORED]):
        print(line)
    print(ev.diagnostics_rows(rows, opts.worst), end="")
    return 0


# One flag, ``--name``, also read from the config file under its name. A
# string default is converted like a given value and shown in --help; an
# option with no default is required. A ``_parse_bool`` option is a bare flag.
Option = namedtuple("Option", "name help conv default choices", defaults=(None,) * 3)
Command = namedtuple("Command", "func help options")

_CUTOFFS = Option("cutoffs", "accuracy cutoffs, comma-separated", _parse_cutoffs,
                  ",".join(map(str, ev.DEFAULT_CUTOFFS)))

COMMANDS = {
    "extract": Command(cmd_extract, "mine candidate pairs from a definitions dump", (
        Option("defs", "definitions dump (id TAB headword TAB definition)"),
        Option("freq", "token TAB count frequency file"),
        Option("min-freq", "drop headwords rarer than this", _positive_int, "100"),
        Option("pairs", "output pairs file"),
    )),
    "build-vocab": Command(cmd_build_vocab, "build a formal lexicon from a corpus", (
        Option("corpus", "plain-text corpus file"),
        Option("min-count", "minimum occurrences", _positive_int, "1"),
        Option("lexicon", "output lexicon file, one token per line"),
    )),
    "count-freq": Command(cmd_count_freq, "count token frequencies in a corpus", (
        Option("corpus", "plain-text corpus file"),
        Option("freq", "output token TAB count file"),
    )),
    "evaluate": Command(cmd_evaluate, "rank formal neighbors for each pair", (
        Option("pairs", "pairs file from extract"),
        Option("lexicon", "formal lexicon file"),
        Option("embeddings", "embedding text file"),
        Option("format", "embedding file layout", None, "plain", ("plain", "headered")),
        _CUTOFFS,
        Option("no-exclude-self", "let the informal token rank as its own neighbor",
               _parse_bool, False),
        Option("report", "output report path (text; .tsv added for machine form)"),
    )),
    "report": Command(cmd_report, "re-summarize a saved machine-readable report", (
        Option("report", "machine-readable report (.tsv) path"),
        _CUTOFFS,
        Option("worst", "how many worst pairs to list", _positive_int, "10"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spellvar",
        description=(
            "Mine informal/formal spelling-variant pairs from dictionary "
            "dumps and score embeddings by formal-neighbor rank."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in command.options:
            shown = f" (default {opt.default})" if isinstance(opt.default, str) else ""
            kind = ({"action": "store_true", "default": None} if opt.conv is _parse_bool
                    else {"choices": opt.choices})
            p.add_argument("--" + opt.name, help=opt.help + shown, **kind)
        p.add_argument("--config", help="flat key = value config file")
    return parser


def resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The command's option values, in ``--help`` order: the flag, else the
    config file's value, else the default. A value that fails to convert or
    is out of range names its option, and the config file it came from; so
    does a config value outside the option's choices."""
    config = load_config(args.config) if args.config else {}
    values = argparse.Namespace()
    for opt in COMMANDS[args.command].options:
        name = opt.name.replace("-", "_")
        value, source = getattr(args, name), "--" + opt.name
        if value is None:
            value, source = config.get(name, opt.default), f"{args.config}: {opt.name}"
        if value is None:
            raise ValueError(f"missing required option --{opt.name}")
        if opt.conv and isinstance(value, str):
            try:
                value = opt.conv(value)
            except ValueError as exc:
                raise ValueError(f"{source}: {exc}") from None
        if opt.choices and value not in opt.choices:
            choices = ", ".join(map(repr, opt.choices))
            raise ValueError(f"{source}: invalid choice: {value!r} (choose from {choices})")
        setattr(values, name, value)
    return values


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].func(resolve(args))
    except (SpellvarError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
