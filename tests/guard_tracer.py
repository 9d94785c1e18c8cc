"""An opt-in pytest plugin: which ``raise`` sites of src/ fire under the tests.

Load it by name, with tests/ on the import path:

    PYTHONPATH=src:tests python -m pytest -q -p guard_tracer

It records, by ``sys.settrace`` with line events off, every exception
event at a line of a ``raise`` statement in src/cycloscheme, and at the
end of the session prints the sites that fired and those that did not.
Only this process is traced, not the processes that tests start.  The
suite runs about three times slower under it, so tier-1 does not load it.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cycloscheme"


def _raise_sites() -> dict:
    """(file, line) -> (module, first line of the raise) for every line of
    every ``raise`` statement in the package."""
    sites = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                for line in range(node.lineno, node.end_lineno + 1):
                    sites[str(path), line] = (path.stem, node.lineno)
    return sites


SITES = _raise_sites()
FILES = {path for path, _ in SITES}
FIRED = set()
RESOLVED = {}  # co_filename -> its resolved path


def _local(frame, event, arg):
    if event == "exception":
        site = SITES.get((RESOLVED[frame.f_code.co_filename], frame.f_lineno))
        if site:
            FIRED.add(site)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in RESOLVED:
        RESOLVED[name] = str(Path(name).resolve())
    if RESOLVED[name] not in FILES:
        return None
    frame.f_trace_lines = False
    return _local


def pytest_sessionstart(session):
    sys.settrace(_global)


def pytest_sessionfinish(session):
    sys.settrace(None)


def pytest_terminal_summary(terminalreporter):
    every = sorted(set(SITES.values()))
    fired = [site for site in every if site in FIRED]
    silent = [site for site in every if site not in FIRED]
    terminalreporter.section(f"raise sites: {len(fired)} of {len(every)} fired")
    for title, sites in (("fired", fired), ("did not fire", silent)):
        terminalreporter.write_line(f"{title} ({len(sites)}):")
        for module, line in sites:
            terminalreporter.write_line(f"  src/cycloscheme/{module}.py:{line}")
