import re
from pathlib import Path

from helpers import lexicon_of, pair
from spellvar import _fileio, embeddings, evaluate

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_import_runs(tmp_path, monkeypatch):
    # the "Library use" block names the public API and its signatures; it
    # must run as written, given the lexicon and pairs it leaves to the reader
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert block is not None and block[1].startswith("from spellvar import (")
    (tmp_path / "vectors.vec").write_text(
        "ur 1 0\nyour 0.9 0.1\nthe 0 1\nu 0.2 0.8\n", encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    names = {"lexicon": lexicon_of("your", "the"), "pairs": [pair("ur", "your"), pair("u", "you")]}
    exec(block[1], names)
    assert [token for token, _ in names["neighbors"]] == ["your", "the"]
    assert names["nearest"]["ur"] == names["neighbors"]
    assert [token for token, _ in names["nearest"]["u"]] == ["the", "your"]
    assert [r.status.value for r in names["report"].per_pair] == ["scored", "formal_missing"]
    assert names["report"].per_pair[0].rank == 1
    counts, hits_at = names["counts"], names["hits_at"]
    assert {s.value: n for s, n in counts.items()} == {"scored": 1, "formal_missing": 1}
    assert hits_at == {1: 1, 5: 1, 10: 1, 20: 1}


def test_readme_product_figures_follow_the_block_constant():
    # "Library use" quotes the product shape each ranking call adds; it must
    # move with evaluate.BLOCK.
    text = README.read_text(encoding="utf-8")
    sizes = re.findall(r"(\d+) × pool", text) + re.findall(r"block of (\d+) queries", text)
    assert len(sizes) >= 2 and set(sizes) == {str(evaluate.BLOCK)}


def test_readme_split_size_follows_the_constant():
    # "File formats" quotes the size from which the embeddings are parsed by
    # two processes; it must move with embeddings.SPLIT_BYTES.
    text = README.read_text(encoding="utf-8")
    sizes = re.findall(r"at least (\d+) MiB \(`SPLIT_BYTES`\)", text)
    assert sizes == [str(embeddings.SPLIT_BYTES >> 20)]


def test_readme_names_every_letter_of_the_record_codec():
    # "File formats" lists how a field writes each character the codec escapes;
    # a letter added to the codec's table must be added there too.
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"report\) escape .*? in any field as (.*?), so ", text, re.S)
    letters = re.findall(r"\\(.)", _fileio._escape("".join(map(chr, range(0x110000)))))
    assert listed is not None and sorted(re.findall(r"`\\(.)`", listed[1])) == sorted(letters)
