"""Echo the acceptance verdict lines and the size of src/ in the terminal
summary.

Stdout from passing tests is captured and hidden, but the one-line
verdicts from test_acceptance.py are the headline output of the suite,
so collect them and print them at the end of the run, followed by the
line counts of ``wc -l src/cycloscheme/*.py``, the measure of the
package's size.
"""

from pathlib import Path

VERDICTS = []

SRC = Path(__file__).resolve().parents[1] / "src"


def record_verdict(line):
    VERDICTS.append(line)


def _line_counts():
    """(count, path) for each module of the package, then the total, as
    ``wc -l src/cycloscheme/*.py`` prints them."""
    counts = [(path.read_bytes().count(b"\n"), f"src/cycloscheme/{path.name}")
              for path in sorted((SRC / "cycloscheme").glob("*.py"))]
    return counts + [(sum(n for n, _ in counts), "total")]


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
    terminalreporter.section("wc -l src/cycloscheme/*.py")
    for count, name in _line_counts():
        terminalreporter.write_line(f"{count:5d} {name}")
