import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_import_runs():
    # the "Library use" block's import names the public API; each name must exist
    block = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    statement = re.search(r"^from spellvar import \(.*?\)$", block, re.M | re.S)
    assert statement is not None
    exec(statement[0], {})
