"""Symbolic parameter book: every published table row and intersection
matrix as a polynomial in q = 2^s, cross-checked against computed results.

The transcription lives in data/tables.json as expression strings.  One
walk over each parse tree checks it against the grammar of integer
literals, q, + - *, ** by a non-negative integer literal and / by a
nonzero integer literal of a non-constant dividend (so 1/2 is rejected),
and turns it into integer coefficients over one denominator.  Values at
q come by Horner's rule, and the row-sum identities are compared
coefficient by coefficient; no text from the data file is executed.
"""

import ast
import json
from functools import lru_cache
from importlib import resources
from itertools import zip_longest
from math import gcd, lcm

from .binfield import FieldTower
from .reporting import Report
from .schemecore import (SCHEMES, THEOREMS, _order, build_dual_scheme, build_scheme,
                         expected_dual_groups)

TABLE_IDS = tuple(SCHEMES)


def _add(a: tuple, b: tuple, sign: int = 1) -> tuple[list[int], int]:
    """a + sign * b for (coefficients, denominator) pairs."""
    den = lcm(a[1], b[1])
    return [x * (den // a[1]) + sign * y * (den // b[1])
            for x, y in zip_longest(a[0], b[0], fillvalue=0)], den


def _mul(a: tuple, b: tuple) -> tuple[list[int], int]:
    coeffs = [0] * (len(a[0]) + len(b[0]) - 1)
    for i, u in enumerate(a[0]):
        for j, v in enumerate(b[0]):
            coeffs[i + j] += u * v
    return coeffs, a[1] * b[1]


_SIGNS = {ast.UAdd: 1, ast.USub: -1, ast.Add: 1, ast.Sub: -1}


def _terms(node, expr: str) -> tuple[list[int], int]:
    """Coefficients (constant term first) and positive denominator of an
    expression node; ValueError for anything outside the grammar."""
    kind, op = type(node), type(getattr(node, "op", None))
    if kind is ast.Name and node.id == "q":
        return [0, 1], 1
    if kind is ast.Constant and type(node.value) is int:
        return [node.value], 1
    if kind is ast.UnaryOp and op in _SIGNS:
        return _mul(([_SIGNS[op]], 1), _terms(node.operand, expr))
    if kind is ast.BinOp:
        left, right = _terms(node.left, expr), node.right
        if op in _SIGNS:
            return _add(left, _terms(right, expr), _SIGNS[op])
        if op is ast.Mult:
            return _mul(left, _terms(right, expr))
        literal = right.value if type(right) is ast.Constant \
            and type(right.value) is int else None
        if op is ast.Pow and literal is not None:
            power = [1], 1
            for _ in range(literal):
                power = _mul(power, left)
            return power
        if op is ast.Div and literal and any(left[0][1:]):  # not constant
            return left[0], left[1] * literal
    raise ValueError(f"expression {expr!r} is not a polynomial in q")


@lru_cache(maxsize=None)
def polynomial(expr: str) -> tuple[tuple[int, ...], int]:
    """(c_0, ..., c_n) and d > 0 in lowest terms with expr equal to
    (c_0 + c_1 q + ... + c_n q^n) / d and c_n != 0 (no coefficient for 0);
    ValueError for anything outside the grammar."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError:
        raise ValueError(f"expression {expr!r} does not parse") from None
    coeffs, den = _terms(tree.body, expr)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    g = gcd(den, *coeffs)
    return tuple(c // g for c in coeffs), den // g


def _divmod(expr: str, q_value: int) -> tuple[int, int]:
    """Quotient and remainder of an expression's numerator at the integer
    q, by Horner's rule, over its denominator."""
    coeffs, den = polynomial(expr)
    value = 0
    for c in reversed(coeffs):
        value = value * q_value + c
    return divmod(value, den)


def evaluate(expr: str, q_value: int) -> int:
    """Exact value of an expression at the integer q; ValueError when it
    is not an integer."""
    value, rest = _divmod(expr, q_value)
    if rest:
        raise ValueError(f"{expr!r} is not an integer at q={q_value}")
    return value


@lru_cache(maxsize=None)
def _load_data() -> dict:
    with resources.files("cycloscheme.data").joinpath("tables.json").open() as fh:
        return json.load(fh)


def _table(table_id: str) -> dict:
    tables = _load_data()["tables"]
    if table_id not in tables:
        raise KeyError(f"unknown table {table_id!r}")
    return tables[table_id]


def table_row(table_id: str, row_label, q_value: int) -> list[int]:
    """One table row evaluated at q = 2^s.  ``row_label`` is a row key
    ('degree', 'T1', ...) or a row index in range(number of rows); a bool
    is neither."""
    table = _table(table_id)
    if type(row_label) is int and row_label in range(len(table["rows"])):
        idx = row_label
    elif row_label in table["row_keys"]:
        idx = table["row_keys"].index(row_label)
    else:
        raise KeyError(f"unknown row {row_label!r}")
    return [evaluate(e, q_value) for e in table["rows"][idx]]


def appendix_matrix(scheme_id: str, which: str, q_value: int) -> list:
    """Intersection matrix B1..B3 / L1..L3 at q = 2^s.  The self-dual
    scheme has no separate L matrices: L_i requests return B_i."""
    data = _load_data()["intersection_matrices"]
    if scheme_id not in data:
        raise KeyError(f"unknown scheme {scheme_id!r}")
    key = "B" + which[1:] if scheme_id == "thm2ii" and which.startswith("L") else which
    mats = data[scheme_id]
    if key not in mats:
        raise KeyError(f"no matrix {which!r} for {scheme_id}")
    return [[evaluate(e, q_value) for e in row] for row in mats[key]]


def _all_expressions():
    data = _load_data()
    for tid, table in data["tables"].items():
        for r, row in enumerate(table["rows"]):
            for c, expr in enumerate(row):
                yield f"table {tid} row {r} col {c}", expr
    for sid, mats in data["intersection_matrices"].items():
        for which, mat in mats.items():
            for r, row in enumerate(mat):
                for c, expr in enumerate(row):
                    yield f"{sid} {which} ({r},{c})", expr


def integrality_check() -> Report:
    """Every transcribed entry must evaluate to an integer at q = 2^s."""
    q_values = (2, 4, 8, 16)
    report = Report("integrality of transcribed entries")
    bad = [f"{where} at q={q}" for where, expr in _all_expressions()
           for q in q_values if _divmod(expr, q)[1]]
    report.add(f"all entries integral at q in {q_values}", not bad,
               "; ".join(bad[:3]))
    return report


def row_sum_identity_check() -> Report:
    """Polynomial identities: nonprincipal table rows sum to 0, and every
    row of B_i (resp. L_i) sums to the degree n_i of the matching scheme.
    Each sum is compared with its target coefficient by coefficient."""
    report = Report("row-sum polynomial identities")

    def sums_to(row, target: str) -> bool:
        rest = polynomial(target)
        for e in row:
            rest = _add(rest, polynomial(e), -1)
        return not any(rest[0])

    bad = [f"table {tid} row {r}" for tid in TABLE_IDS
           for r, row in enumerate(_table(tid)["rows"][1:], 1) if not sums_to(row, "0")]
    report.add("nonprincipal table rows sum to 0 identically", not bad, "; ".join(bad))

    degree_of = {"B": {sid: _table(sid)["rows"][0] for sid in THEOREMS},
                 "L": {sid: _table(SCHEMES[sid][1])["rows"][0] for sid in THEOREMS}}
    bad = [f"{sid} {which} row {r}"
           for sid, mats in _load_data()["intersection_matrices"].items()
           for which, mat in mats.items()
           for r, row in enumerate(mat)
           if not sums_to(row, degree_of[which[0]][sid][int(which[1])])]
    report.add("every B_i/L_i row sums to the degree n_i identically", not bad,
               "; ".join(bad))
    return report


# ---------------------------------------------------------------------------
# reconciliation against computed schemes
# ---------------------------------------------------------------------------

def _compare(report: Report, name: str, triples, detail: str = "") -> None:
    """One check over (label, computed, table) triples: the first pair that
    differs fails it as "label: computed X, table Y"; else ``detail``."""
    bad = next(((f"{label}: " if label else "") + f"computed {got}, table {want}"
                for label, got, want in triples if got != want), "")
    report.add(name, not bad, bad or detail)


def reconcile(tower: FieldTower, scheme_id: str) -> Report:
    """Compare a computed scheme and its dual with the book in the
    published class order: table row t is the residue group t of
    ``expected_dual_groups``, found among the scheme's dual classes (its P
    rows) and the dual's classes (the dual's columns); the dual table's
    rows are T1, T2, T3, found among the dual's dual classes.  A missing
    group fails its check; a failing row or matrix names both values."""
    q = 1 << tower.s
    record = build_scheme(tower, scheme_id)
    report = Report(f"published parameters vs computed, {scheme_id} (s={tower.s})")
    report.add("fusion verified as a 3-class scheme", record.is_scheme)
    if not record.is_scheme:
        return report
    _compare(report, "degree row matches the table",
             [("", record.degrees, table_row(scheme_id, "degree", q))],
             f"computed {record.degrees}")
    groups = expected_dual_groups(tower, scheme_id)
    rows = _order(record.dual_sets, groups)
    if rows is None:
        t = next(t for t, g in enumerate(groups, 1) if g not in record.dual_sets)
        report.add("nonprincipal P rows match the table", False,
                   f"no dual class matches the row-{t} residue group")
    else:
        _compare(report, "nonprincipal P rows match the table "
                 f"(table row -> computed row {rows[1:]})",
                 ((f"row {t}", record.P[rows[t]], table_row(scheme_id, t, q)) for t in (1, 2, 3)))
    _compare(report, "intersection matrices B1..B3 match",
             ((f"B{i}", record.B[i], appendix_matrix(scheme_id, f"B{i}", q)) for i in (1, 2, 3)))

    dual = build_dual_scheme(tower, record)
    report.add("dual fusion verified as a 3-class scheme", dual.is_scheme)
    if not dual.is_scheme:
        return report
    cols = _order(dual.pattern_sets, groups)
    report.add("dual classes match the published D_k index groups", cols is not None,
               f"D_k -> computed class {cols[1:]}" if cols else
               f"dual classes {sorted(map(sorted, dual.pattern_sets))}")
    if cols is None:
        return report
    got, want = [dual.degrees[c] for c in cols], table_row(dual.scheme_id, "degree", q)
    report.add("dual degree row matches the table", got == want, f"computed {got}, table {want}")
    rows = _order(dual.dual_sets, record.pattern_sets)
    if rows is None:
        t = next(t for t, g in enumerate(record.pattern_sets, 1) if g not in dual.dual_sets)
        report.add("dual table rows match", False, f"dual census group != T{t}")
    else:
        _compare(report, "dual table rows match",
                 ((f"row a in T{t}", [dual.P[rows[t]][c] for c in cols],
                   table_row(dual.scheme_id, t, q)) for t in (1, 2, 3)))
    L = [[[dual.B[i][k][j] for j in cols] for k in cols] for i in cols]  # in the book's order
    _compare(report, "intersection matrices L1..L3 match",
             ((f"L{i}", L[i], appendix_matrix(scheme_id, f"L{i}", q)) for i in (1, 2, 3)))
    if scheme_id == "thm2ii":
        report.add("self-dual: L_i coincide with B_i", L == record.B)
    return report
