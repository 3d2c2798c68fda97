"""Seeded synthetic inputs with planted truth for the benchmark workloads.

Every generator takes a seed and an output directory, writes only plain
input files there, and returns the truth the checks compare against. The
same seed gives byte-identical files. Nothing here imports spellvar: the
expected outcomes follow from how each record was built, so the checks do
not depend on the code they check.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import numpy as np

MIN_FREQ = 100  # passed to `extract --min-freq`; the frequency cut in the truth

# Shapes, sized so one iteration of each workload takes ~1-3 s on a 2-core box.
MINE_VOCAB = 20_000
MINE_TOKENS = 600_000
MINE_DEFS = 60_000
SCORE_ROWS, SCORE_DIM, SCORE_POOL_SHARE, SCORE_PAIRS = 24_000, 100, 0.8, 300

LETTERS = "abcdefghijklmnopqrstuvwxyz"
# Glue words for definition text. None is "name" and none contains
# "spelling", so only the planted records trigger those rules.
GLUE = (
    "a", "an", "the", "of", "to", "in", "used", "when", "someone", "is",
    "very", "for", "by", "with", "on", "or", "and", "it", "you", "that",
    "means", "slang", "word", "people", "often", "online", "chat", "thing",
)
NON_ASCII = ("é", "ü", "ñ", "ø", "å")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def describe_inputs(directory: str) -> dict[str, dict]:
    """Byte size and sha256 of every file in ``directory``."""
    return {
        name: {
            "bytes": os.path.getsize(os.path.join(directory, name)),
            "sha256": sha256_file(os.path.join(directory, name)),
        }
        for name in sorted(os.listdir(directory))
    }


def _words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    """``n`` fresh lowercase ASCII words, none in ``taken`` (which grows)."""
    out: list[str] = []
    while len(out) < n:
        w = "".join(rng.choices(LETTERS, k=rng.randint(3, 9)))
        if w in taken or w == "name" or "spelling" in w:
            continue
        taken.add(w)
        out.append(w)
    return out


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


# --- mine: corpus + definitions dump ---------------------------------------


def _corpus(rng, nrng, out_dir, taken):
    """Write corpus.txt; return the exact per-word counts tokenize must find.

    Words carry case changes, outer punctuation and internal apostrophes or
    hyphens; punctuation-only tokens are sprinkled in and must vanish.
    """
    plain = _words(rng, MINE_VOCAB - 500, taken)
    joined = [a + rng.choice("'-") + b for a, b in zip(*[iter(_words(rng, 600, taken))] * 2)]
    accented: list[str] = []
    while len(accented) < 200:
        w = rng.choice(plain)
        i = rng.randrange(len(w))
        w = w[:i] + rng.choice(NON_ASCII) + w[i + 1:]
        if w not in taken:
            taken.add(w)
            accented.append(w)
    vocab = plain + joined + accented
    rng.shuffle(vocab)
    weights = 1.0 / np.arange(6, len(vocab) + 6) ** 1.05
    counts = nrng.multinomial(MINE_TOKENS, weights / weights.sum())
    sequence = nrng.permutation(np.repeat(np.arange(len(vocab)), counts)).tolist()

    decor = nrng.integers(0, 100, len(sequence)).tolist()
    tokens: list[str] = []
    for i, d in zip(sequence, decor):
        w = vocab[i]
        if w.isascii() and d < 8:
            w = w.capitalize() if d < 6 else w.upper()
        elif 8 <= d < 14:
            w = w + rng.choice((",", ".", "!", "?", ";", ":", ")", '"', "'"))
        elif 14 <= d < 17:
            w = rng.choice(("(", '"', "'")) + w
        elif d == 17:
            tokens.append(rng.choice(("--", "...", "&", "\u2014")))
        tokens.append(w)
    lines = []
    i = 0
    while i < len(tokens):
        n = rng.randint(6, 18)
        lines.append(" ".join(tokens[i:i + n]))
        i += n
    _write(os.path.join(out_dir, "corpus.txt"), "\n".join(lines) + "\n")
    return {w: int(c) for w, c in zip(vocab, counts) if c > 0}, accented


def _filler(rng, pool, n):
    return " ".join(rng.choice(pool) if rng.random() < 0.7 else rng.choice(GLUE) for _ in range(n))


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def mine_inputs(seed: int, out_dir: str) -> dict:
    """corpus.txt and defs.tsv, plus the expected output files of
    ``count-freq``, ``build-vocab`` and ``extract --min-freq MIN_FREQ``."""
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    taken = set(GLUE)
    counts, accented = _corpus(rng, nrng, out_dir, taken)

    frequent = sorted(w for w, c in counts.items() if c >= MIN_FREQ and w.isascii())
    rare = sorted(w for w, c in counts.items() if c < MIN_FREQ and w.isascii())
    rare += _words(rng, 300, taken)  # absent from the corpus: count 0
    formals = _words(rng, 3000, taken)
    formals += [w + "é" for w in formals[:30] if w + "é" not in taken]
    filler_pool = _words(rng, 2000, taken)

    ids = [f"e{n:07d}" for n in rng.sample(range(10_000_000), MINE_DEFS)]
    records: list[str] = []
    kept: list[tuple[str, str, str, str]] = []
    stats = dict.fromkeys(
        ("definitions_scanned", "spelling_hits", "candidates_extracted",
         "excluded_name", "excluded_frequency", "excluded_nonascii"), 0)
    stats["definitions_scanned"] = MINE_DEFS
    for entry_id in ids:
        r = rng.random()
        headword = rng.choice(frequent)
        # Escaped newlines, tabs and backslashes, always after a period so
        # that they never reach the template's period-free run.
        tail = rng.choice(("", "", "", "\nSee also: " + rng.choice(formals) + ".",
                           "\tsource: chat logs", " Path C:\\slang\\" + rng.choice(formals)))
        if r < 0.40:  # no "spelling" anywhere
            text = _filler(rng, filler_pool, rng.randint(4, 16)).capitalize()
            if rng.random() < 0.05:
                text += ", a name for " + rng.choice(filler_pool)
            records.append(f"{entry_id}\t{headword}\t{_escape(text + '.' + tail)}")
            continue
        stats["spelling_hits"] += 1
        variant = rng.choice(formals)
        if r < 0.50:  # a hit the template does not match
            text = rng.choice((
                f"Bad spelling, see '{variant}'",
                f"Lazy spelling. Also '{variant}'",
                f"Common spelling of {variant} without quotes",
                f'Spoken spelling of "{variant} {rng.choice(formals)}"',
                "Winner of a spelling bee",
            ))
            records.append(f"{entry_id}\t{headword}\t{_escape(text + '.' + tail)}")
            continue
        kind = rng.randrange(5)
        opener, closer, delimiter = (
            ("'", "'", "single_quote"), ('"', '"', "double_quote"), ("[", "]", "bracket"),
            ("\u2018", "\u2019", "single_quote"), ("\u201c", "\u201d", "double_quote"),
        )[kind]
        shown = rng.choice((variant, variant.capitalize(), variant.upper()))
        prefix = rng.choice(("", "[Slang] ", "Internet ", "Deliberate mis", "A common mis", "Alternative "))
        middle = rng.choice((" of", " of the word", " used for", ""))
        outcome = rng.random()
        suffix = "."
        keep = False
        if outcome < 0.03:  # the variant is the headword itself: no candidate
            headword = rng.choice((variant, variant.capitalize()))
        else:
            stats["candidates_extracted"] += 1
            if outcome < 0.06:  # non-ASCII headword, claimed first even with "name"
                headword = rng.choice(accented)
                if rng.random() < 0.3:
                    suffix = ", a Name used online."
                stats["excluded_nonascii"] += 1
            elif outcome < 0.11:  # the word "name" in the definition
                if rng.random() < 0.5:
                    headword = rng.choice(rare)
                suffix = rng.choice((", a girl's name.", ", Name of a band.", ", also a name."))
                stats["excluded_name"] += 1
            elif outcome < 0.31:  # headword below the frequency floor
                headword = rng.choice(rare)
                stats["excluded_frequency"] += 1
            else:
                if rng.random() < 0.05:  # "name" inside a longer word does not count
                    suffix = rng.choice((", common in nicknames.", ", renamed later.", ", surname style."))
                keep = True
        if headword.isascii() and rng.random() < 0.2:
            headword = headword.capitalize()
        if keep:
            kept.append((entry_id, headword.lower(), variant.lower(), delimiter))
        text = f"{prefix}spelling{middle} {opener}{shown}{closer}{suffix}"
        records.append(f"{entry_id}\t{headword}\t{_escape(text + tail)}")
    _write(os.path.join(out_dir, "defs.tsv"), "\n".join(records) + "\n")

    freq_text = "".join(f"{w}\t{c}\n" for w, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    lexicon_text = "".join(w + "\n" for w in sorted(counts))
    pairs_text = "".join(
        f"{inf}\t{form}\t{i}\t{d}\tunvalidated\n" for i, inf, form, d in sorted(kept)
    )
    stats_text = "".join(f"{k}: {v}\n" for k, v in stats.items())
    return {
        "definitions": MINE_DEFS,
        "expected": {
            "freq.tsv": freq_text,
            "lexicon.txt": lexicon_text,
            "pairs.tsv": pairs_text,
            "pairs.tsv.stats": stats_text,
            "pairs.tsv.stats.json": json.dumps(stats, sort_keys=True) + "\n",
        },
    }


# --- score: embedding table + lexicon + pairs --------------------------------


def table_inputs(seed: int, out_dir: str) -> dict:
    """vectors.txt, lexicon.txt and pairs.tsv with planted pair statuses.

    The table is in the plain format, and its lexicon covers most of the
    vocabulary, with each scored target planted near its informal token.
    A few rows are zero vectors, some lexicon lines are upper case (the
    lexicon folds case), and some lexicon tokens are absent from the table.
    """
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    rows, dim, n_pairs = SCORE_ROWS, SCORE_DIM, SCORE_PAIRS
    taken: set[str] = set()
    tokens = _words(rng, rows, taken)
    in_lexicon = {i for i in range(rows) if rng.random() < SCORE_POOL_SHARE}
    lex_rows = sorted(in_lexicon)
    out_rows = [i for i in range(rows) if i not in in_lexicon]
    zero = set(rng.sample(lex_rows, 6) + rng.sample(out_rows, 6))
    lexicon_only = _words(rng, max(20, len(lex_rows) // 40), taken)

    # Every role takes fresh rows, so no vector serves two pairs.
    pool = [i for i in lex_rows if i not in zero]
    rest = [i for i in out_rows if i not in zero]
    rng.shuffle(pool)
    rng.shuffle(rest)
    n_removed = max(2, n_pairs // 20)
    n_informal_missing = max(2, n_pairs // 50)
    n_formal_missing = max(2, n_pairs // 50)
    n_scored = n_pairs - n_removed - n_informal_missing - n_formal_missing
    pairs: list[tuple[str, str]] = []
    scored: list[tuple[str, str]] = []
    self_excluded = 0
    planted: list[tuple[int, int]] = []
    for k in range(n_scored):
        informal = pool.pop() if k % 2 == 0 else rest.pop()
        self_excluded += k % 2 == 0
        formal = pool.pop()
        planted.append((informal, formal))
        scored.append((tokens[informal], tokens[formal]))
    pairs += scored
    zero_lex = sorted(i for i in zero if i in in_lexicon)
    zero_out = sorted(i for i in zero if i not in in_lexicon)
    fresh = _words(rng, 4, taken)
    for k in range(n_informal_missing):  # not in the table, or a zero vector
        informal = fresh[k % 2] + str(k) if k % 2 == 0 else tokens[zero_out[k % len(zero_out)]]
        pairs.append((informal, tokens[pool.pop()]))
    for k in range(n_formal_missing):  # in the lexicon, but no usable vector
        formal = lexicon_only[k] if k % 2 == 0 else tokens[zero_lex[k % len(zero_lex)]]
        pairs.append((tokens[rest.pop()], formal))
    for k in range(n_removed):  # target outside the lexicon: dropped before scoring
        formal = tokens[rest.pop()] if k % 2 == 0 else fresh[2] + str(k)
        pairs.append((tokens[rest.pop()], formal))
    rng.shuffle(pairs)

    matrix = nrng.standard_normal((rows, dim)) * 0.3
    for informal, formal in planted:
        matrix[formal] = 0.7 * matrix[informal] + 0.3 * matrix[formal]
    strings = [f"{k / 1e4:.4f}" for k in range(-10_000, 10_001)]
    index = np.rint(np.clip(matrix, -1.0, 1.0) * 1e4).astype(np.int64) + 10_000
    lines = []
    for i, row in enumerate(index.tolist()):
        values = ["0.0000"] * dim if i in zero else [strings[j] for j in row]
        lines.append(tokens[i] + " " + " ".join(values))
    _write(os.path.join(out_dir, "vectors.txt"), "\n".join(lines) + "\n")

    lexicon = [tokens[i] for i in lex_rows] + lexicon_only
    rng.shuffle(lexicon)
    lexicon = [t.upper() if rng.random() < 0.02 else t for t in lexicon]
    _write(os.path.join(out_dir, "lexicon.txt"), "\n".join(lexicon) + "\n")
    delimiters = ("single_quote", "double_quote", "bracket")
    _write(os.path.join(out_dir, "pairs.tsv"), "".join(
        f"{a}\t{b}\tp{k:06d}\t{delimiters[k % 3]}\tunvalidated\n" for k, (a, b) in enumerate(pairs)))

    # The oracle sample takes two self-excluded (even k) and two plain pairs.
    sample = [scored[k] for k in rng.sample(range(0, n_scored, 2), 2) + rng.sample(range(1, n_scored, 2), 2)]
    return {
        "pairs": n_pairs,
        "statuses": {
            "scored": n_scored,
            "informal_missing": n_informal_missing,
            "formal_missing": n_formal_missing,
        },
        "removed_by_lexicon": n_removed,
        "self_excluded": self_excluded,
        "oracle_pairs": sample,
    }
