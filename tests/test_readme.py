"""The README names only what the code has: every backticked identifier in
README.md, dotted or not, is a word of some Python file under src/, tests/
or perfbench/, so a name removed from the code cannot linger in the docs,
and its "N lines in all" is the package's line count."""

import re
from pathlib import Path

from conftest import _line_counts

ROOT = Path(__file__).resolve().parents[1]

# backticked README identifiers that name nothing in the code, and why
NOT_CODE = {
    "Z_r": "notation: the count of trace-zero exponents in the class of r",
    "compileall": "the standard-library module that compiles a source tree",
}


def _code_words():
    """Every word of the Python files under src/, tests/ and perfbench/,
    this file left out, as it names the misses it allows."""
    words = set()
    for directory in ("src", "tests", "perfbench"):
        for path in (ROOT / directory).rglob("*.py"):
            if path != Path(__file__).resolve():
                words.update(re.findall(r"\w+", path.read_text(), re.ASCII))
    return words


def test_every_readme_identifier_names_something_in_the_code():
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    names = {s for s in spans if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", s, re.ASCII)}
    words = _code_words()
    assert "get_partition" in names and "FusionPattern" in names
    # an allowed miss that the code has, or the README no longer names, is stale
    assert {n for n in names if not set(n.split(".")) <= words} == set(NOT_CODE)
    assert all(NOT_CODE.values())


def test_the_readme_line_count_is_the_package_size():
    # the "N lines in all" of README.md is the total that tier-1 prints
    (stated,) = re.findall(r"\(([\d,]+) lines in all\)", (ROOT / "README.md").read_text())
    assert int(stated.replace(",", "")) == _line_counts()[-1][0]
