"""A census of the guards: every ``raise`` in src/ is fired by a test, or is
listed in UNREACHABLE with the reason no input can reach it.

The census reads each ``raise`` with ``ast``.  A raise whose exception
gets a message literal is fired by a test when some pattern P of a
``pytest.raises(..., match=P)`` in tests/, or of an ``(SomeError, P)``
outcome pair as in test_mutants.py, finds text that the message can
render, each f-string field holding one token: text without a space, or
a quoted or bracketed run.  A raise of an exception class that builds its
own message is fired by a ``pytest.raises`` of that class.
"""

import ast
import re
from itertools import combinations_with_replacement
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module, the message with {} for each field) -> why no input reaches
# the guard
UNREACHABLE = {
    ("binfield", "Pollard rho found no factor of {}"):
        "the numbers factored are the orders 2^m - 1 and the degrees m of the "
        "fields; for m <= 64, the tower's limit, the walk's first constant "
        "c = 1 splits every composite that Miller-Rabin leaves",
    ("binfield", "no primitive polynomial of degree {} found"):
        "GF(2^m)* is cyclic, so a primitive polynomial of every degree m exists "
        "and the search over all odd candidates of degree m meets one",
}


def _message(node):
    """The message of ``raise Error(message)`` as its constant parts, with
    one field between each two of them; None when it is not a literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if not isinstance(node, ast.JoinedStr):
        return None
    parts = [""]
    for value in node.values:
        if isinstance(value, ast.Constant):
            parts[-1] += value.value
        else:
            parts.append("")
    return parts


def _raises():
    """(module, line, kind, what) for each raise in src/: kind "message"
    with the message's parts, or kind "class" with the class's name."""
    out = []
    for path in sorted((ROOT / "src" / "cycloscheme").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc
            for call in [exc.body, exc.orelse] if isinstance(exc, ast.IfExp) else [exc]:
                parts = _message(call.args[0]) if call.args else None
                if parts is not None:
                    out.append((path.stem, node.lineno, "message", parts))
                else:
                    out.append((path.stem, node.lineno, "class", call.func.id))
    return out


def _error_name(node):
    return isinstance(node, ast.Name) and node.id.endswith("Error")


def _test_patterns():
    """The match patterns of tests/, and the exception classes that a
    ``pytest.raises`` names."""
    patterns, classes = set(), set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg == "match" and isinstance(keyword.value, ast.Constant):
                        patterns.add(keyword.value.value)
                if ast.unparse(node.func) == "pytest.raises" and node.args:
                    classes.add(ast.unparse(node.args[0]).rpartition(".")[2])
            elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
                  and _error_name(node.elts[0]) and isinstance(node.elts[1], ast.Constant)):
                patterns.add(node.elts[1].value)
    return patterns, classes


# the start and the end of a message, for the anchors ^ and $ of a pattern
START, END = "\x02", "\x03"
# what an f-string field renders: one token, text without a space or a
# quoted or bracketed run, never past the end of the message
FIELD = r"(?:[^\s\x03]*?|'[^\x03]*?'|\([^\x03]*?\)|\[[^\x03]*?\])"


def _examples(pattern):
    """One text that ``pattern`` finds per top-level alternative: an escape
    read as its character (\\d as 0), an atom under ? or * left out, + read
    once, and the anchors ^ and $ as START and END."""
    out = []
    for alternative in re.split(r"(?<!\\)\|", pattern):
        text = []
        for atom in re.findall(r"\\.|.", alternative):
            if atom in "?*":
                text.pop()
            elif atom != "+":
                anchors = {"^": START, "$": END, r"\d": "0"}
                text.append(anchors.get(atom, atom[-1]))
        out.append("".join(text))
    return out


def _fits(text, parts):
    """Whether ``text`` is part of a message with constant parts ``parts``
    (START and END included) and a ``FIELD`` between each two of them, at
    least half of ``text`` being the message's constant text."""
    for i, j in combinations_with_replacement(range(len(parts)), 2):
        if i == j:
            if text and text in parts[i]:
                return True
            continue
        head = "|".join(re.escape(parts[i][k:]) for k in range(len(parts[i]) + 1))
        tail = "|".join(re.escape(parts[j][:k]) for k in range(len(parts[j]), -1, -1))
        body = "".join(re.escape(part) + FIELD for part in parts[i + 1:j])
        match = re.fullmatch(f"({head}){FIELD}{body}({tail})", text)
        if match and 2 * (len(match[0]) - sum(map(len, match.groups()))
                          - sum(map(len, parts[i + 1:j]))) <= len(text):
            return True
    return False


def _anchored(parts):
    """The parts of a message with START before it and END after it."""
    parts = [START + parts[0], *parts[1:]]
    parts[-1] += END
    return parts


def _unfired():
    patterns, classes = _test_patterns()
    examples = [e for p in patterns for e in _examples(p)]
    return {(module, "{}".join(what) if kind == "message" else what): line
            for module, line, kind, what in _raises()
            if not (any(_fits(e, _anchored(what)) for e in examples) if kind == "message"
                    else what in classes)}


def test_every_pattern_finds_its_examples():
    patterns, _ = _test_patterns()
    assert patterns
    for pattern in patterns:
        for example in _examples(pattern):
            assert re.search(pattern, example.strip(START + END)), (pattern, example)


def test_fits_reads_each_field_as_one_token():
    parts = ["the walk supports degree <= ", ", not ", ""]
    assert _fits("degree <= 64", parts) and _fits("64, not 65", parts)
    assert _fits("walk", parts) and _fits("degree <= 1234567890", parts)
    assert not _fits("degree >= 64", parts) and not _fits("supports degrees", parts)
    assert not _fits("supports degree <= " + "1" * 20, parts)
    assert _fits("degree <= (1, 2), not '3 4'", parts) and not _fits("supports degree <= 6 4", parts)
    assert not _fits("degree <= 64", ["no primitive polynomial of degree ", " found"])
    negative = _anchored(["modulus ", " is negative"])
    assert _fits(START + "modulus -0xb is negative" + END, negative)
    assert not _fits(START + "modulus mismatch" + END, negative)
    assert not _fits(START + "is negative", negative)


def test_every_raise_is_fired_by_a_test_or_unreachable():
    unfired = _unfired()
    assert sorted(set(unfired) - set(UNREACHABLE)) == []
    # an entry that a test fires, or that names no raise, is stale
    assert sorted(set(UNREACHABLE) - set(unfired)) == []
    assert all(reason for reason in UNREACHABLE.values())
